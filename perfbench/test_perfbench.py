"""The benchmark's own tests.

Run from the repository root:

  python3 -m pytest -q perfbench

The smoke tests run every workload's whole path and checks at tiny frame
sizes, untraced and traced.  The remaining tests corrupt one output of
a real pass (a flipped pixel, a dropped instance, a perturbed AR, ...)
and show that the check guarding it fails.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from mobilabel.rounds import default_stages  # noqa: E402
from path import StandIn, Tracer, replay_init, run_pass  # noqa: E402
from run import check_pass, large2small_inputs  # noqa: E402
from workloads import WORKLOADS, build, smoke_variant  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = _run("--workload", workload, "--smoke", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_traced_run_reports_every_layer(workload):
    proc, result = _run("--workload", workload, "--smoke", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in WORKLOADS.values()]


# -- one real pass, then corrupted copies of its outputs ---------------------------

@pytest.fixture(scope="module")
def done(tmp_path_factory):
    w = smoke_variant(WORKLOADS["waymo-masks"])  # noise-free, with small objects
    root = tmp_path_factory.mktemp("bench")
    build(w, 3, root / "setup")
    detector = StandIn(root / "setup" / "responses")
    run_pass(root / "setup", root / "pass0", detector, repeat=False)
    check_pass(w, root / "setup", root / "pass0")  # the uncorrupted pass is correct
    return w, root


def _stages(root):
    return {s: checks.load_dir(root / "pass0" / "pipeline0" / "stages" / s)
            for s in ("l0", "moving2mobile", "large2small", "final")}


def _first(frames):
    fid = sorted(f for f in frames if frames[f].instances)[0]
    return fid, frames[fid]


def _set_pixel(inst, r, c, value):
    mask = inst.mask
    mask[r, c] = value
    flat = mask.T.ravel()  # column-major, zeros-first run lengths
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    counts = np.diff(np.concatenate(([0], change, [flat.size]))).tolist()
    inst.counts = tuple([0] + counts if flat[0] else counts)


def test_l0_pixel_outside_motion_fails(done):
    w, root = done
    l0 = checks.load_dir(root / "pass0" / "l0")
    fid, fr = _first(l0)
    fg = checks.read_pgm(root / "setup" / "data" / "motion" / f"{fid}.pgm") >= 0.1
    r, c = np.argwhere(~fg)[0]
    _set_pixel(fr.instances[0], r, c, True)
    with pytest.raises(CheckFailed, match="motion foreground"):
        checks.check_l0(l0, root / "setup" / "data")


def test_l0_overlap_fails(done):
    w, root = done
    l0 = checks.load_dir(root / "pass0" / "l0")
    fid = next(f for f, fr in l0.items() if len(fr.instances) >= 2)
    a, b = l0[fid].instances[:2]
    r, c = np.argwhere(a.mask)[0]
    _set_pixel(b, r, c, True)
    with pytest.raises(CheckFailed, match="overlaps"):
        checks.check_l0(l0, root / "setup" / "data")


def test_l0_dropped_instance_fails(done):
    w, root = done
    l0 = checks.load_dir(root / "pass0" / "l0")
    fid, fr = _first(l0)
    fr.instances.pop()
    with pytest.raises(CheckFailed, match="moving object"):
        checks.check_l0(l0, root / "setup" / "data")


def test_l0_exact_flipped_pixel_fails(done):
    w, root = done
    l0 = checks.load_dir(root / "pass0" / "l0")
    fid, fr = _first(l0)
    inst = fr.instances[0]
    r, c = np.argwhere(inst.mask)[0]
    _set_pixel(inst, r, c, False)
    with pytest.raises(CheckFailed, match="moving masks"):
        checks.check_l0_exact(l0, root / "setup" / "data")


def test_m2m_dropped_instance_fails(done):
    w, root = done
    m2m = _stages(root)["moving2mobile"]
    fid, fr = _first(m2m)
    fr.instances.pop(0)
    with pytest.raises(CheckFailed, match="moving2mobile"):
        checks.check_m2m(m2m, root / "setup" / "responses", default_stages()[0].conf_threshold)


def test_l2s_edited_mask_fails(done):
    w, root = done
    l2s = _stages(root)["large2small"]
    inputs = large2small_inputs(root / "setup", l2s)
    fid, fr = _first(l2s)
    inst = fr.instances[0]
    r, c = np.argwhere(inst.mask)[0]
    _set_pixel(inst, r, c, False)
    with pytest.raises(CheckFailed, match="not one of the input masks"):
        checks.check_l2s(l2s, inputs, [], default_stages()[1].agg)


def test_l2s_dropped_instance_fails_literal_rules(done):
    w, root = done
    l2s = _stages(root)["large2small"]
    inputs = large2small_inputs(root / "setup", l2s)
    fid, fr = _first(l2s)
    fr.instances.pop()
    with pytest.raises(CheckFailed, match="literal merge rules"):
        checks.check_l2s(l2s, inputs, [fid], default_stages()[1].agg)


def test_final_differing_from_l2s_fails(done):
    w, root = done
    stages = _stages(root)
    fid, fr = _first(stages["final"])
    fr.instances[0] = replace(fr.instances[0], score=fr.instances[0].score / 2)
    with pytest.raises(CheckFailed, match="final"):
        checks.check_final(stages["final"], stages["large2small"])


def test_no_static_gain_fails(done):
    w, root = done
    stages = _stages(root)
    gts = checks.load_dir(root / "setup" / "data" / "labels")
    stages["moving2mobile"] = stages["l0"]
    with pytest.raises(CheckFailed, match="static AR"):
        checks.check_stage_claims(stages, gts)


def test_perturbed_ar_fails(done, tmp_path):
    w, root = done
    report = json.loads((root / "pass0" / "report0.json").read_text())
    report["ar"] += 1e-6
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report))
    final = _stages(root)["final"]
    gts = checks.load_dir(root / "setup" / "data" / "labels")
    checks.check_report(root / "pass0" / "report0.json", final, gts)
    with pytest.raises(CheckFailed, match="eval report ar"):
        checks.check_report(bad, final, gts)


def test_changed_byte_between_passes_fails(done, tmp_path):
    w, root = done
    other = tmp_path / "pass"
    subprocess.run(["cp", "-r", str(root / "pass0"), str(other)], check=True)
    checks.same_tree(root / "pass0", other, "copy")
    target = next((other / "l0").glob("*.json"))
    target.write_bytes(target.read_bytes().replace(b'"score": 1.0', b'"score": 0.5', 1))
    with pytest.raises(CheckFailed, match="files differ"):
        checks.same_tree(root / "pass0", other, "copy")


def test_replay_differing_from_enclosing_call_fails(done, tmp_path):
    w, root = done
    detector = StandIn(root / "setup" / "responses")
    tr = Tracer()
    out = tmp_path / "traced"
    run_pass(root / "setup", out, detector, repeat=False, tracer=tr)
    l0 = next(p for p in sorted((out / "l0").glob("*.json")) if json.loads(p.read_text())["instances"])
    doc = json.loads(l0.read_text())
    doc["instances"] = doc["instances"][1:]
    l0.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="replayed L0"):
        replay_init(root / "setup", out, tr)
