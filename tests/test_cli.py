import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mobilabel.cli
import mobilabel.io
from mobilabel.aggregate import AggParams
from mobilabel.cli import _from_flags, _with_config, build_parser, main
from mobilabel.initlabel import DbscanParams, InstanceLabel, LabelSet, make_initial_labels
from mobilabel.io import (
    DatasetLayout,
    read_depth,
    read_intrinsics,
    read_labels,
    read_motion,
    write_labels,
    write_motion,
    write_transform,
)
from mobilabel.maskcore import BBox, PreparedMask, iou
from mobilabel.metrics import EvalConfig
from mobilabel.rescale import make_transform
from mobilabel.rounds import default_config_snapshot, default_stages, gt_overlap_filter
from mobilabel.synthgen import DetectorNoise, SceneSpec

COMMANDS = ("synth", "init-labels", "rescale", "aggregate", "filter", "eval", "pipeline")


def run(*argv):
    return main([str(a) for a in argv])


def required(cmd, d):
    """The flags cmd requires, every directory set to d."""
    return {"synth": ["--out", d],
            "init-labels": ["--data", d, "--out", d],
            "rescale": ["--labels", d, "--out", d],
            "aggregate": ["--large", d, "--small", d, "--out", d],
            "filter": ["--labels", d, "--out", d, "--conf", 0.5],
            "eval": ["--pred", d, "--gt", d],
            "pipeline": ["--l0", d, "--exchange", d, "--out", d]}[cmd]


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "data"
    assert run("synth", "--out", root, "--frames", 3, "--seed", 11) == 0
    return root


# -- exit codes and help ------------------------------------------------------

def test_every_subcommand_has_help(capsys):
    for cmd in COMMANDS:
        assert run(cmd, "--help") == 0
        out = capsys.readouterr().out
        assert "--workers" in out and "--config" in out


def test_help_shows_stock_defaults(capsys):
    run("init-labels", "--help")
    assert "0.1" in capsys.readouterr().out
    for cmd in ("aggregate", "pipeline"):
        run(cmd, "--help")
        out = " ".join(capsys.readouterr().out.split())
        assert "0.5" in out and "0.75" in out
        assert "IoU above which two masks count as the same object (default: 0.5)" in out


def test_flag_defaults_come_from_the_library():
    parser, _ = build_parser()
    snap = default_config_snapshot()
    m2m, l2s, final = default_stages()

    def signature_default(fn, name):
        return inspect.signature(fn).parameters[name].default

    def parse(cmd):
        return parser.parse_args([cmd, *map(str, required(cmd, "d"))])

    assert _from_flags(SceneSpec, parse("synth")) == SceneSpec()
    assert parse("rescale").scale == l2s.scale[1] == snap["l2s_scales"][1]

    a = parse("init-labels")
    assert a.motion_threshold == signature_default(make_initial_labels, "motion_threshold") \
        == snap["motion_threshold"]
    assert a.min_area == signature_default(make_initial_labels, "min_area")
    assert (a.eps, a.min_pts, a.pixel_window) == (DbscanParams().eps, DbscanParams().min_pts,
                                                  DbscanParams().pixel_window)

    a = parse("aggregate")
    assert AggParams(a.match_thrd, a.filt_frac, a.cover_frac) == AggParams()

    a = parse("filter")
    assert a.min_iou == signature_default(gt_overlap_filter, "min_iou") \
        == snap["gt_overlap_min_iou"]

    assert _from_flags(EvalConfig, parse("eval")) == EvalConfig()

    a = parse("pipeline")
    assert _from_flags(DetectorNoise, a) == DetectorNoise()
    assert a.m2m_conf == m2m.conf_threshold == snap["m2m_conf"]
    assert tuple(a.l2s_confs) == l2s.conf_threshold == snap["l2s_confs"]
    assert tuple(a.l2s_scales) == l2s.scale == snap["l2s_scales"]
    assert tuple(a.jitter) == m2m.scale == final.scale == snap["scale_jitter"]
    assert AggParams(a.match_thrd, a.filt_frac, a.cover_frac) == l2s.agg
    assert (a.m2m_epochs, a.l2s_epochs, a.final_epochs) == (m2m.epochs, l2s.epochs,
                                                            final.epochs)


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run("synth", "--out", tmp_path / "d", "--bogus") == 2


def test_missing_input_dir_is_exit_3(tmp_path, capsys):
    assert run("init-labels", "--data", tmp_path / "nope", "--out", tmp_path / "o") == 3


def test_missing_required_flag_is_usage_error(capsys):
    assert run("synth") == 2


def test_internal_validation_is_usage_error(tmp_path, capsys):
    assert run("synth", "--out", tmp_path / "d", "--moving-fraction", "2.0") == 2


@pytest.mark.parametrize("argv", [
    ["filter", "--labels", "EMPTY", "--conf", 1.5],
    ["filter", "--labels", "EMPTY", "--conf", "nan"],
    ["filter", "--labels", "EMPTY", "--gt-overlap", "--gt", "EMPTY", "--min-iou", 3],
    ["rescale", "--labels", "EMPTY", "--scale", 1.5],
    ["rescale", "--labels", "EMPTY", "--scale", 0],
    ["aggregate", "--large", "EMPTY", "--small", "EMPTY", "--nms", "--nms-iou", 7],
    ["aggregate", "--large", "EMPTY", "--small", "EMPTY", "--nms", "--nms-iou", -1],
    ["synth", "--frames", 0],
    ["synth", "--frames", -3],
    ["init-labels", "--data", "EMPTY", "--motion-threshold", 2],
    ["init-labels", "--data", "EMPTY", "--motion-threshold", -0.1],
    ["init-labels", "--data", "EMPTY", "--min-area", -5],
    ["pipeline", "--l0", "EMPTY", "--exchange", "EMPTY", "--m2m-conf", 2],
    ["pipeline", "--l0", "EMPTY", "--exchange", "EMPTY", "--l2s-confs", 0.9, 1.5],
    ["pipeline", "--l0", "EMPTY", "--exchange", "EMPTY", "--l2s-scales", 1.0, 0],
    ["pipeline", "--l0", "EMPTY", "--exchange", "EMPTY", "--jitter", 0.5, 1.5],
    ["rescale", "--labels", "EMPTY", "--scale", 5e-324],  # 1 / scale overflows
])
def test_out_of_range_value_is_usage_error_without_frames(tmp_path, capsys, argv):
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = [empty if a == "EMPTY" else a for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "must lie in" in err or "must be at least" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cmd,flag", [
    *((cmd, "--seed") for cmd in ("init-labels", "rescale", "aggregate", "filter", "eval")),
    *((cmd, "-v") for cmd in ("rescale", "aggregate", "filter", "eval", "pipeline")),
])
def test_seed_and_verbose_only_where_they_act(tmp_path, capsys, cmd, flag):
    argv = [flag, 3] if flag == "--seed" else [flag]
    assert run(cmd, *required(cmd, tmp_path), *argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", COMMANDS)
def test_workers_below_one_is_usage_error_in_every_subcommand(tmp_path, capsys, cmd):
    assert run(cmd, *required(cmd, tmp_path), "--workers", 0) == 2
    assert "argument --workers: must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- synth + init-labels ------------------------------------------------------

def test_synth_and_init_labels_run_without_scipy(tmp_path):
    script = """if True:
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from mobilabel.cli import main
        data, out = sys.argv[1:]
        sys.exit(main(["synth", "--out", data, "--frames", "2", "--motion-blur", "2",
                       "--depth-sigma", "0.05"])
                 or main(["init-labels", "--data", data, "--out", out]))
    """
    src = Path(mobilabel.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d"),
                           str(tmp_path / "l0")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert sorted(p.name for p in (tmp_path / "l0").iterdir()) == ["000000.json", "000001.json"]


def test_synth_layout_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", a, "--frames", 4, "--seed", 3) == 0
    assert run("synth", "--out", b, "--frames", 4, "--seed", 3, "--workers", 8) == 0
    assert (a / "intrinsics.json").is_file()
    assert sorted(p.name for p in (a / "depth").iterdir()) == [
        "000000.dpf1", "000001.dpf1", "000002.dpf1", "000003.dpf1"]
    assert tree_bytes(a) == tree_bytes(b)


def test_init_labels_finds_moving_objects(dataset, tmp_path, capsys):
    out = tmp_path / "l0"
    assert run("init-labels", "--data", dataset, "--out", out) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("init-labels: 3 frames")
    for p in sorted(out.glob("*.json")):
        ls = read_labels(p)
        gt = read_labels(dataset / "labels" / p.name)
        movers = [i for i in gt.instances if i.attributes["moving"]]
        assert len(ls.instances) == len(movers)


def test_init_labels_reads_each_raster_once(dataset, tmp_path, monkeypatch):
    calls = {"read_depth": [], "read_motion": []}

    def counting(name, read):
        def counted(path):
            calls[name].append(path)
            return read(path)
        return counted

    for name in calls:
        counted = counting(name, getattr(mobilabel.io, name))
        for module in (mobilabel.io, mobilabel.cli):
            monkeypatch.setattr(module, name, counted)
    assert run("init-labels", "--data", dataset, "--out", tmp_path / "l0") == 0
    assert {name: len(paths) for name, paths in calls.items()} == {"read_depth": 3, "read_motion": 3}


@pytest.mark.parametrize("threshold", [0.0, 0.1, 26 / 255, 1.0])
def test_init_labels_writes_what_make_initial_labels_gives(tmp_path, threshold):
    root = tmp_path / "data"  # blur radius 3 stores level 26, the cut of 0.1 and 26/255
    assert run("synth", "--out", root, "--frames", 2, "--seed", 4, "--motion-blur", 3) == 0
    assert run("init-labels", "--data", root, "--out", tmp_path / "l0",
               "--motion-threshold", repr(threshold)) == 0
    layout = DatasetLayout(root)
    k = read_intrinsics(layout.intrinsics_path)
    for fid in layout.frame_ids():
        motion = read_motion(layout.motion_path(fid)) / 255.0  # probabilities, not the levels the CLI cuts
        labels = make_initial_labels(read_depth(layout.depth_path(fid)), motion,
                                     k, DbscanParams(), motion_threshold=threshold, frame_id=fid)
        write_labels(tmp_path / "want.json", labels)
        assert (tmp_path / "l0" / f"{fid}.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_init_labels_mismatched_rasters_is_usage_error(dataset, tmp_path, capsys):
    write_motion(dataset / "motion" / "000001.pgm", np.zeros((6, 5)))
    assert run("init-labels", "--data", dataset, "--out", tmp_path / "l0") == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- rescale ------------------------------------------------------------------

def test_rescale_round_trip(dataset, tmp_path):
    shrunk = tmp_path / "shrunk"
    restored = tmp_path / "restored"
    assert run("rescale", "--labels", dataset / "labels", "--out", shrunk,
               "--scale", 0.25, "--depth", dataset / "depth",
               "--motion", dataset / "motion") == 0
    assert (shrunk / "transforms" / "000000.json").is_file()
    assert (shrunk / "depth" / "000000.dpf1").is_file()
    assert run("rescale", "--labels", shrunk / "labels", "--out", restored,
               "--invert", "--transforms", shrunk / "transforms") == 0
    for p in sorted((restored / "labels").glob("*.json")):
        got = read_labels(p)
        want = read_labels(dataset / "labels" / p.name)
        assert len(got.instances) == len(want.instances)
        for g, w in zip(got.instances, want.instances):
            assert iou(PreparedMask(g.mask), PreparedMask(w.mask)) >= 0.5


def test_rescale_invert_rejects_rasters(dataset, tmp_path):
    assert run("rescale", "--labels", dataset / "labels", "--out", tmp_path / "o",
               "--invert", "--depth", dataset / "depth") == 2


def test_rescale_invert_refuses_to_write_an_infinite_box(tmp_path, capsys):
    labels, transforms, out = tmp_path / "labels", tmp_path / "transforms", tmp_path / "o"
    labels.mkdir()
    transforms.mkdir()
    pixel = PreparedMask.from_bits(np.ones((1, 1), bool), 0, 0, (8, 8)).rle()
    write_labels(labels / "000000.json", LabelSet("000000", 8, 8, [
        InstanceLabel(mask=pixel, box=BBox(0.0, 0.0, 1.0, 1e308), score=1.0, instance_id=0)]))
    write_transform(transforms / "000000.json", make_transform(8, 8, 0.25))
    assert run("rescale", "--labels", labels, "--out", out, "--invert", "--transforms", transforms) == 2
    assert "NaN or infinity" in capsys.readouterr().err
    assert list((out / "labels").iterdir()) == []


# -- aggregate + filter -------------------------------------------------------

def test_aggregate_and_nms(dataset, tmp_path, capsys):
    out = tmp_path / "agg"
    assert run("aggregate", "--large", dataset / "labels",
               "--small", dataset / "labels", "--out", out) == 0
    assert "mask-agg" in capsys.readouterr().out
    # identical large/small sets resolve back to one copy per object
    for p in sorted(out.glob("*.json")):
        got = read_labels(p)
        want = read_labels(dataset / "labels" / p.name)
        assert len(got.instances) == len(want.instances)
    assert run("aggregate", "--large", dataset / "labels",
               "--small", dataset / "labels", "--out", tmp_path / "nms",
               "--nms", "--nms-iou", 0.5) == 0
    assert "nms 0.5" in capsys.readouterr().out


def test_aggregate_nms_keeps_attributes(dataset, tmp_path):
    out = tmp_path / "nms"
    assert run("aggregate", "--large", dataset / "labels", "--small", dataset / "labels",
               "--out", out, "--nms", "--nms-iou", 0.5) == 0
    kept = 0
    for p in sorted(out.glob("*.json")):
        pool = {(i.mask, i.box, i.score): i.attributes
                for i in read_labels(dataset / "labels" / p.name).instances}
        for inst in read_labels(p).instances:
            assert inst.attributes is not None
            assert inst.attributes == pool[(inst.mask, inst.box, inst.score)]
            kept += 1
    assert kept


def test_aggregate_missing_small_frame_is_exit_3(dataset, tmp_path):
    small = tmp_path / "small"
    small.mkdir()
    assert run("aggregate", "--large", dataset / "labels", "--small", small,
               "--out", tmp_path / "o") == 3


def test_worker_errors_match_in_process_errors(dataset, tmp_path, capsys):
    # a typed error raised in a worker process reaches the CLI unchanged
    bad = tmp_path / "bad"
    shutil.copytree(dataset / "labels", bad)
    doc = json.loads((bad / "000001.json").read_text())
    del doc["instances"][0]["score"]
    (bad / "000001.json").write_text(json.dumps(doc))
    small = tmp_path / "small"
    small.mkdir()
    shutil.copy(dataset / "labels" / "000000.json", small)
    cases = {
        ("filter", "--labels", bad, "--conf", 0.5):
            (2, "error: $.instances[0].score: missing required field\n"),
        ("aggregate", "--large", dataset / "labels", "--small", small):
            (3, "error: no prediction file for frame '000001'\n"),
    }
    for argv, want in cases.items():
        for workers in (1, 2):
            code = run(*argv, "--out", tmp_path / f"o{workers}", "--workers", workers)
            assert (code, capsys.readouterr().err) == want


def test_filter_conf_and_gt_overlap(dataset, tmp_path, capsys):
    out = tmp_path / "kept"
    assert run("filter", "--labels", dataset / "labels", "--out", out,
               "--conf", 0.5) == 0
    assert "kept" in capsys.readouterr().out
    assert run("filter", "--labels", dataset / "labels", "--out", tmp_path / "o2",
               "--gt-overlap", "--gt", dataset / "labels") == 0
    # GT scores are 1.0, so conf 0.5 keeps everything
    for p in sorted(out.glob("*.json")):
        assert read_labels(p) == read_labels(dataset / "labels" / p.name)


def test_filter_gt_overlap_names_missing_ground_truth(dataset, tmp_path, capsys):
    gt = tmp_path / "gt"
    gt.mkdir()
    shutil.copy(dataset / "labels" / "000000.json", gt)
    want = (3, f"error: ground-truth labels not found: {gt / '000001.json'}\n")
    for workers in (1, 2):
        code = run("filter", "--labels", dataset / "labels", "--gt-overlap", "--gt", gt,
                   "--out", tmp_path / f"o{workers}", "--workers", workers)
        assert (code, capsys.readouterr().err) == want


def test_filter_needs_exactly_one_mode(dataset, tmp_path):
    assert run("filter", "--labels", dataset / "labels",
               "--out", tmp_path / "o") == 2
    assert run("filter", "--labels", dataset / "labels", "--out", tmp_path / "o",
               "--conf", 0.5, "--gt-overlap") == 2


def _misnamed(labels_dir, tmp_path, fid, frame_id):
    """A copy of labels_dir whose fid file holds frame frame_id."""
    out = tmp_path / "misnamed"
    shutil.copytree(labels_dir, out)
    ls = read_labels(out / f"{fid}.json")
    write_labels(out / f"{fid}.json", dataclasses.replace(ls, frame_id=frame_id))
    return out


@pytest.mark.parametrize("cmd", ["rescale", "aggregate", "filter", "eval"])
def test_label_file_holding_another_frame_is_usage_error(dataset, tmp_path, capsys, cmd):
    bad = _misnamed(dataset / "labels", tmp_path, "000001", "000002")
    good, out = dataset / "labels", tmp_path / "o"
    argv = {"rescale": ["--labels", bad, "--out", out],
            "aggregate": ["--large", good, "--small", bad, "--out", out],
            "filter": ["--labels", good, "--gt-overlap", "--gt", bad, "--out", out],
            "eval": ["--pred", good, "--gt", bad]}[cmd]
    assert run(cmd, *argv) == 2
    assert "holds frame '000002', not '000001'" in capsys.readouterr().err


# -- eval -----------------------------------------------------------------------

def test_eval_identity_is_perfect(dataset, capsys):
    assert run("eval", "--pred", dataset / "labels", "--gt", dataset / "labels") == 0
    out = capsys.readouterr().out
    assert "AR 1.0000" in out and "AP 1.0000" in out


def test_eval_json_report_is_deterministic(dataset, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("eval", "--pred", dataset / "labels", "--gt", dataset / "labels",
               "--attributes", "--json", a) == 0
    assert run("eval", "--pred", dataset / "labels", "--gt", dataset / "labels",
               "--attributes", "--json", b) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["ar"] == 1.0 and report["ap"] == 1.0
    assert report["ar_by_attribute"]["moving"] == 1.0


def test_eval_missing_prediction_is_exit_3(dataset, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("eval", "--pred", empty, "--gt", dataset / "labels") == 3


def test_eval_refuses_predictions_without_ground_truth(dataset, tmp_path, capsys):
    pred = tmp_path / "pred"
    shutil.copytree(dataset / "labels", pred)
    for fid in ("000099", "000100"):
        ls = read_labels(pred / "000001.json")
        write_labels(pred / f"{fid}.json", dataclasses.replace(ls, frame_id=fid))
    assert run("eval", "--pred", pred, "--gt", dataset / "labels") == 2
    assert "frames without ground truth: 000099, 000100" in capsys.readouterr().err


# -- pipeline -------------------------------------------------------------------

def _l0(dataset, tmp_path):
    out = tmp_path / "l0"
    assert run("init-labels", "--data", dataset, "--out", out) == 0
    return out


def test_pipeline_with_mock_detector(dataset, tmp_path, capsys):
    l0 = _l0(dataset, tmp_path)
    out = tmp_path / "stages"
    assert run("pipeline", "--l0", l0, "--exchange", tmp_path / "exch",
               "--out", out, "--mock-gt", dataset / "labels") == 0
    line = capsys.readouterr().out
    assert "moving2mobile" in line and "final" in line
    for stage in ("l0", "moving2mobile", "large2small", "final"):
        assert sorted(p.name for p in (out / stage).glob("*.json")) == [
            "000000.json", "000001.json", "000002.json"]
    # zero-noise mock: the first round already restores every GT instance
    for p in sorted((out / "moving2mobile").glob("*.json")):
        assert read_labels(p) == read_labels(dataset / "labels" / p.name)


def test_pipeline_reruns_byte_identical(dataset, tmp_path):
    l0 = _l0(dataset, tmp_path)
    for tag in ("x", "y"):
        assert run("pipeline", "--l0", l0, "--exchange", tmp_path / tag / "exch",
                   "--out", tmp_path / tag / "out", "--mock-gt", dataset / "labels",
                   "--mock-jitter", 1, "--mock-score-sigma", 0.05,
                   "--mock-dropout", 0.2, "--seed", 7, "--workers", 8) == 0
    assert tree_bytes(tmp_path / "x") == tree_bytes(tmp_path / "y")


def test_mock_detector_streams_differ_per_branch(dataset, tmp_path):
    # moving2mobile and the full-scale large2small call must draw their own noise
    l0 = _l0(dataset, tmp_path)
    ex = tmp_path / "exch"
    assert run("pipeline", "--l0", l0, "--exchange", ex, "--out", tmp_path / "out",
               "--mock-gt", dataset / "labels", "--mock-jitter", 2,
               "--mock-dropout", 0.2, "--mock-fp", 2) == 0
    m2m = tree_bytes(ex / "moving2mobile" / "response")
    large = tree_bytes(ex / "large2small.large" / "response")
    assert sorted(m2m) == sorted(large) and len(m2m) == 3
    assert all(m2m[name] != large[name] for name in m2m)


@pytest.mark.parametrize("frame_id", ["../../../pwned", "000000"])
def test_pipeline_writes_nothing_for_a_label_file_holding_another_frame(dataset, tmp_path, frame_id):
    # the exchange and stage files are named after frame ids: a traversing
    # id would write above the exchange, a repeated one would lose a frame
    l0 = _misnamed(_l0(dataset, tmp_path), tmp_path, "000001", frame_id)
    ex = tmp_path / "exchange"
    before = set(tmp_path.rglob("*"))
    assert run("pipeline", "--l0", l0, "--exchange", ex, "--out", ex / "out",
               "--mock-gt", dataset / "labels") == 2
    assert not set(tmp_path.rglob("*")) - before


def test_pipeline_reversed_jitter_is_usage_error_before_any_read(tmp_path, capsys):
    # no directory exists: the stage settings are checked first
    assert run("pipeline", "--l0", tmp_path / "l0", "--exchange", tmp_path / "x",
               "--out", tmp_path / "o", "--mock-gt", tmp_path / "gt", "--jitter", 1.0, 0.5) == 2
    assert "empty jitter range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_pipeline_mock_detector_takes_non_ascii_frame_ids(dataset, tmp_path):
    l0, gt = tmp_path / "l0", tmp_path / "gt"
    for src, dst in ((_l0(dataset, tmp_path / "init"), l0), (dataset / "labels", gt)):
        dst.mkdir()
        ls = read_labels(src / "000001.json")
        write_labels(dst / "café.json", dataclasses.replace(ls, frame_id="café"))
    out = tmp_path / "stages"
    assert run("pipeline", "--l0", l0, "--exchange", tmp_path / "x", "--out", out,
               "--mock-gt", gt, "--mock-jitter", 1) == 0
    assert read_labels(out / "final" / "café.json").frame_id == "café"


def test_pipeline_external_mode_needs_responses(dataset, tmp_path):
    l0 = _l0(dataset, tmp_path)
    assert run("pipeline", "--l0", l0, "--exchange", tmp_path / "exch",
               "--out", tmp_path / "out") == 3


def test_pipeline_mock_gt_names_a_missing_ground_truth_file_before_writing(dataset, tmp_path, capsys):
    l0 = _l0(dataset, tmp_path)
    gt = tmp_path / "gt"
    gt.mkdir()
    shutil.copy(dataset / "labels" / "000000.json", gt)
    code = run("pipeline", "--l0", l0, "--exchange", tmp_path / "exch",
               "--out", tmp_path / "out", "--mock-gt", gt)
    assert (code, capsys.readouterr().err) == (
        3, f"error: ground-truth labels not found: {gt / '000001.json'}\n")
    assert not (tmp_path / "exch").exists() and not (tmp_path / "out").exists()


# -- config file ----------------------------------------------------------------

def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frames": 2, "seed": 5, "out": str(tmp_path / "c")}))
    assert run("synth", "--config", cfg) == 0
    assert "synth: 2 frames" in capsys.readouterr().out
    assert run("synth", "--config", cfg, "--frames", 1,
               "--out", tmp_path / "d") == 0
    assert "synth: 1 frames" in capsys.readouterr().out
    assert not (tmp_path / "d" / "depth" / "000001.dpf1").exists()


def test_config_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_flag": 1}))
    assert run("synth", "--config", cfg, "--out", tmp_path / "o") == 2


def test_config_missing_file_is_exit_3(tmp_path):
    assert run("synth", "--config", tmp_path / "nope.json",
               "--out", tmp_path / "o") == 3


def test_config_invalid_json_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run("synth", "--config", cfg, "--out", tmp_path / "o") == 2


def test_config_nested_too_deep_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 200_000 + "]" * 200_000)
    assert run("synth", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "internal error" not in capsys.readouterr().err


def test_config_lists_spread_and_switches_set(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frames": 1, "objects": [2, 2], "verbose": True,
                               "out": str(tmp_path / "c")}))
    assert run("synth", "--config", cfg) == 0
    captured = capsys.readouterr()
    assert "synth: 1 frames, 2 instances" in captured.out
    assert "frame 000000: 2 instances" in captured.err


@pytest.mark.parametrize("entry", [
    {"frames": None}, {"frames": "three"}, {"frames": 2.5}, {"frames": True},
    {"frames": [1]}, {"frames": {"n": 1}}, {"objects": [1]}, {"workers": None},
    {"verbose": "yes"}, {"verbose": 1},
])
def test_config_null_or_wrong_typed_value_is_usage_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert run("synth", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "internal error" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_conflicting_with_explicit_exclusive_flag_is_usage_error(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"conf": 0.99}))
    assert run("filter", "--config", cfg, "--labels", dataset / "labels",
               "--gt-overlap", "--gt", dataset / "labels", "--out", tmp_path / "o") == 2
    assert not (tmp_path / "o").exists()
    # the same flag given explicitly still beats the config value
    assert run("filter", "--config", cfg, "--labels", dataset / "labels",
               "--conf", 0.5, "--out", tmp_path / "o") == 0
    assert len(list((tmp_path / "o").glob("*.json"))) == 3


def test_config_satisfies_required_exclusive_group(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"conf": 0.5}))
    assert run("filter", "--config", cfg, "--labels", dataset / "labels",
               "--out", tmp_path / "c") == 0
    assert run("filter", "--conf", 0.5, "--labels", dataset / "labels",
               "--out", tmp_path / "f") == 0
    assert tree_bytes(tmp_path / "c") == tree_bytes(tmp_path / "f")
    assert len(tree_bytes(tmp_path / "c")) == 3


def test_config_string_value_may_start_with_a_dash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "-d", "frames": 1}))
    assert run("synth", "--config", cfg) == 0
    assert (tmp_path / "-d" / "depth" / "000000.dpf1").is_file()


@pytest.mark.parametrize("cmd, entry, cls, field, want", [
    ("synth", {"objects": [2, 4]}, SceneSpec, "n_objects", (2, 4)),
    ("pipeline", {"mock-jitter": 1}, DetectorNoise, "mask_jitter", 1),
    ("pipeline", {"mock_fp": 2}, DetectorNoise, "false_positives", 2),
])
def test_config_keys_are_flag_names_for_renamed_fields(tmp_path, cmd, entry, cls, field, want):
    parser, subs = build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    argv, _ = _with_config(subs, [cmd, "--config", str(cfg), *map(str, required(cmd, "d"))])
    built = _from_flags(cls, parser.parse_args(argv))
    assert getattr(built, field) == want != getattr(cls(), field)
    # the field name is not a flag name
    cfg.write_text(json.dumps({field: want}))
    with pytest.raises(ValueError, match="unknown option"):
        _with_config(subs, [cmd, "--config", str(cfg)])


def test_config_abbreviated_flag_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frames": 1}))
    assert run("synth", "--confi", cfg, "--out", tmp_path / "o") == 2
    assert not (tmp_path / "o").exists()
