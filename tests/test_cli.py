import inspect
import json
import shutil

import numpy as np
import pytest

import mobilabel.cli
import mobilabel.io
from mobilabel.aggregate import AggParams
from mobilabel.cli import build_parser, main
from mobilabel.initlabel import DbscanParams, make_initial_labels
from mobilabel.io import read_labels, write_motion
from mobilabel.maskcore import PreparedMask, iou
from mobilabel.rounds import default_config_snapshot, default_stages, gt_overlap_filter


def run(*argv):
    return main([str(a) for a in argv])


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
    for cmd in ("synth", "init-labels", "rescale", "aggregate", "filter",
                "eval", "pipeline"):
        assert run(cmd, "--help") == 0
        out = capsys.readouterr().out
        assert "--workers" in out and "--config" in out


def test_help_shows_stock_defaults(capsys):
    run("init-labels", "--help")
    assert "0.1" in capsys.readouterr().out
    run("aggregate", "--help")
    out = capsys.readouterr().out
    assert "0.5" in out and "0.75" in out


def test_flag_defaults_come_from_the_library():
    parser, _ = build_parser()
    snap = default_config_snapshot()
    m2m, l2s, final = default_stages()

    def signature_default(fn, name):
        return inspect.signature(fn).parameters[name].default

    a = parser.parse_args(["init-labels"])
    assert a.motion_threshold == signature_default(make_initial_labels, "motion_threshold") \
        == snap["motion_threshold"]
    assert a.min_area == signature_default(make_initial_labels, "min_area")
    assert (a.eps, a.min_pts, a.pixel_window) == (DbscanParams().eps, DbscanParams().min_pts,
                                                  DbscanParams().pixel_window)

    a = parser.parse_args(["aggregate"])
    assert AggParams(a.match_thrd, a.filt_frac, a.cover_frac) == AggParams()

    a = parser.parse_args(["filter", "--gt-overlap"])
    assert a.min_iou == signature_default(gt_overlap_filter, "min_iou") \
        == snap["gt_overlap_min_iou"]

    a = parser.parse_args(["pipeline"])
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


# -- synth + init-labels ------------------------------------------------------

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
    read_depth = mobilabel.io.read_depth
    calls = []

    def counting(path):
        calls.append(path)
        return read_depth(path)

    for module in (mobilabel.io, mobilabel.cli):
        monkeypatch.setattr(module, "read_depth", counting)
    assert run("init-labels", "--data", dataset, "--out", tmp_path / "l0") == 0
    assert len(calls) == 3


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


def test_filter_needs_exactly_one_mode(dataset, tmp_path):
    assert run("filter", "--labels", dataset / "labels",
               "--out", tmp_path / "o") == 2
    assert run("filter", "--labels", dataset / "labels", "--out", tmp_path / "o",
               "--conf", 0.5, "--gt-overlap") == 2


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


def test_pipeline_external_mode_needs_responses(dataset, tmp_path):
    l0 = _l0(dataset, tmp_path)
    assert run("pipeline", "--l0", l0, "--exchange", tmp_path / "exch",
               "--out", tmp_path / "out") == 3


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
