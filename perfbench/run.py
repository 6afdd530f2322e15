"""Stage-by-stage benchmark of the mobilabel label path.

Usage, from the repository root:

  python3 perfbench/run.py --workload kitti-cluster --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all            # every workload, one table

A run sets up the workload's dataset and stand-in detector responses
several times (``setup_s`` is their median), then starts one worker
process that drives init-labels -> pipeline -> eval over the dataset in
whole passes, starting none that would end past ``--seconds`` of path
time, checks the outputs, and reports.  The worker is single-threaded
and its peak resident memory is ``peak_rss_mb``.  With ``--trace 1``
the worker runs one untraced pass and one traced pass and reports the
per-layer metrics instead.  The last line of standard output is one JSON object;
the exit code is non-zero when any check fails.

Run outputs go to ``.perfbench/<workload>-seed<seed>-trace<trace>/``
under the current directory; the dataset and pass outputs are removed
after a run whose checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
RUNS = Path(".perfbench")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 25.0  # worker time kept back for the checks after the last pass

END_TO_END = {  # name -> unit
    "setup_s": "s", "path_fps": "frames/s", "init_labels_fps": "frames/s",
    "pipeline_fps": "frames/s", "eval_fps": "frames/s", "peak_rss_mb": "MB",
}


def _import_package():
    if not (SRC / "mobilabel" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}/mobilabel; run from the repository root")
    sys.path[:0] = [str(SRC), str(HERE)]
    import mobilabel
    if Path(mobilabel.__file__).resolve().parent != (SRC / "mobilabel").resolve():
        sys.exit(f"error: imported mobilabel from {mobilabel.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def get_workload(name: str, smoke: bool):
    from workloads import WORKLOADS, smoke_variant
    w = WORKLOADS[name]
    return smoke_variant(w) if smoke else w


# -- worker process -----------------------------------------------------------------

def large2small_inputs(root: Path, fids) -> dict:
    """Per frame, the proposals aggregation may pick from: the large
    response and the inverted small response, each cut at its stage
    confidence.  Returned as ``checks.Inst`` lists (large, small)."""
    import checks
    from mobilabel.initlabel import LabelSet
    from mobilabel.io import read_labels
    from mobilabel.rescale import invert_labels, make_transform
    from mobilabel.rounds import default_stages

    cfg = default_stages()[1]
    inputs = {}
    for fid in fids:
        large = checks.kept(checks.load(root / "responses" / "large" / f"{fid}.json"),
                            cfg.conf_threshold[0])
        small = read_labels(root / "responses" / "small" / f"{fid}.json")
        small = LabelSet(fid, small.height, small.width,
                         [i for i in small.instances if i.score >= cfg.conf_threshold[1]])
        inverted = invert_labels(small, make_transform(small.height, small.width, cfg.scale[1]))
        inputs[fid] = (large, [checks.Inst(i.instance_id, i.score, (i.box.x, i.box.y, i.box.w, i.box.h),
                                           i.mask.counts, i.attributes, i.mask.height, i.mask.width)
                               for i in inverted.instances])
    return inputs


def check_pass(w, root: Path, out: Path) -> dict:
    """Every correctness check on one pass's outputs; returns the AR figures."""
    import checks
    from mobilabel.rounds import default_stages

    m2m_cfg, l2s_cfg, _ = default_stages()
    data = root / "data"
    stages = {s: checks.load_dir(out / "pipeline0" / "stages" / s)
              for s in ("l0", "moving2mobile", "large2small", "final")}
    l0 = checks.load_dir(out / "l0")
    checks.check_l0(l0, data)
    if w.spec.depth_sigma == 0 and w.spec.motion_blur == 0:
        checks.check_l0_exact(l0, data)
    checks.require({f: [i.content() for i in fr.instances] for f, fr in l0.items()}
                   == {f: [i.content() for i in fr.instances] for f, fr in stages["l0"].items()},
                   "pipeline l0 stage differs from the init-labels output")
    checks.check_m2m(stages["moving2mobile"], root / "responses", m2m_cfg.conf_threshold)
    literal = sorted(stages["large2small"])[:1]  # the literal rules are slow on full frames
    checks.check_l2s(stages["large2small"], large2small_inputs(root, stages["large2small"]),
                     literal, l2s_cfg.agg)
    checks.check_final(stages["final"], stages["large2small"])
    gts = checks.load_dir(data / "labels")
    claims = checks.check_stage_claims(stages, gts)
    checks.check_report(out / "report0.json", stages["final"], gts)
    return claims


def worker(args) -> dict:
    from checks import CheckFailed, same_file, same_tree
    from path import PassTimes, StandIn, Tracer, layer_metrics, run_pass

    w = get_workload(args.workload, args.smoke)
    run_dir = Path(args.worker)
    root = run_dir / "setup"
    detector = StandIn(root / "responses")
    frames = len(list((root / "data" / "depth").glob("*.dpf1")))
    started = time.perf_counter()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "notes": {}}
    passes: list[PassTimes] = []

    def ops(p: PassTimes) -> int:  # frame x stage: init-labels, three rounds, eval
        return frames * (1 + 3 * len(p.pipeline) + len(p.eval))

    try:
        if args.trace == 0:
            # whole passes, none started that would end past --seconds of
            # measured time (the first always runs)
            while True:
                passes.append(run_pass(root, run_dir / f"pass{len(passes)}", detector, repeat=True,
                                       init_workers=args.init_workers))
                spent = time.perf_counter() - started
                if (sum(p.wall for p in passes) + passes[-1].wall > args.seconds
                        or spent + passes[-1].wall > args.budget - CHECK_RESERVE_S):
                    break
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            fps = lambda times: statistics.median(frames / t for t in times)  # noqa: E731
            result["metrics"] = {
                "path_fps": fps([p.path for p in passes]),
                "init_labels_fps": fps([p.init for p in passes]),
                "pipeline_fps": fps([t for p in passes for t in p.pipeline]),
                "eval_fps": fps([t for p in passes for t in p.eval]),
                "peak_rss_mb": peak_kib * 1024 / 1e6,
            }
        else:
            t0 = time.perf_counter()
            passes.append(run_pass(root, run_dir / "pass0", detector, repeat=False))
            untraced = time.perf_counter() - t0
            tr = Tracer()
            t0 = time.perf_counter()
            passes.append(run_pass(root, run_dir / "pass1", detector, repeat=False, tracer=tr))
            result["metrics"] = layer_metrics(tr, run_dir / "pass1",
                                              overhead=time.perf_counter() - t0 - untraced)
            (run_dir / "trace.json").write_text(json.dumps(tr.spans))
    except Exception as e:  # a stage failed: its pass counts as failed operations
        result["attempted"] = sum(ops(p) for p in passes) + 5 * frames
        result["failed"] = 5 * frames
        result["correct"] = False
        result["notes"]["failure"] = "".join(traceback.format_exception(e))
        return result
    result["attempted"] = sum(ops(p) for p in passes)
    result["notes"]["passes"] = len(passes)
    result["notes"]["samples_s"] = [{"init": p.init, "pipeline": p.pipeline, "eval": p.eval}
                                    for p in passes]
    first = run_dir / "pass0"
    try:
        result["notes"]["ar50"] = check_pass(w, root, first)
        for i, p in enumerate(passes):
            pdir = run_dir / f"pass{i}"
            if i:
                same_tree(first / "l0", pdir / "l0", f"pass {i} L0")
                same_tree(first / "pipeline0", pdir / "pipeline0", f"pass {i} pipeline")
                same_file(first / "report0.json", pdir / "report0.json", f"pass {i} report")
            for r in range(1, len(p.pipeline)):
                same_tree(pdir / "pipeline0", pdir / f"pipeline{r}", f"pass {i} pipeline repeat {r}")
                same_file(pdir / "report0.json", pdir / f"report{r}.json", f"pass {i} eval repeat {r}")
    except CheckFailed as e:
        result["correct"] = False
        result["notes"]["failure"] = str(e)
    return result


# -- parent process -----------------------------------------------------------------

def run_one(args) -> int:
    from workloads import build

    w = get_workload(args.workload, args.smoke)
    started = time.perf_counter()
    run_dir = RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_times = []
    for i in range(SETUP_REPEATS):
        target = run_dir / f"setup{i}"
        t0 = time.perf_counter()
        build(w, args.seed, target)
        setup_times.append(time.perf_counter() - t0)
    for i in range(SETUP_REPEATS - 1):
        shutil.rmtree(run_dir / f"setup{i}")
    (run_dir / f"setup{SETUP_REPEATS - 1}").rename(run_dir / "setup")

    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w.name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--worker", str(run_dir),
           "--budget", str(budget), "--init-workers", str(args.init_workers)] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    (run_dir / "worker.log").write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}; log in {run_dir / 'worker.log'}",
              file=sys.stderr)
        return 1
    result = json.loads((run_dir / "worker.json").read_text())
    notes = result.pop("notes")
    if args.trace == 0:
        result["metrics"]["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    else:
        units = {}
    metrics = {name: {"value": value, "unit": units.get(name) or _layer_unit(name)}
               for name, value in sorted(result["metrics"].items())}
    info = {"workload": w.name, "seed": args.seed, "env": environment(), **notes,
            "setup_runs_s": setup_times}
    (run_dir / "result.json").write_text(json.dumps({**result, "metrics": metrics, "info": info}, indent=1))
    if result["correct"]:
        for d in ["setup"] + [p.name for p in run_dir.glob("pass*")]:
            shutil.rmtree(run_dir / d, ignore_errors=True)
    if "failure" in info:
        print(f"check failed: {info['failure']}", file=sys.stderr)
    print("info: " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{w.name:14s} {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mpx"):
        return "Mpx"
    return "count"


def run_all(args) -> int:
    from workloads import WORKLOADS

    worst = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
        except (IndexError, json.JSONDecodeError):
            rows.append((name, None))
            worst = max(worst, 1)
    print(f"\n{'workload':14s} {'correct':8s} {'attempted':>9s} {'failed':>6s}  metrics")
    for name, r in rows:
        if r is None:
            print(f"{name:14s} {'error':8s}")
            continue
        ms = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{name:14s} {str(r['correct']):8s} {r['attempted']:9d} {r['failed']:6d}  {ms}")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="kitti-cluster, waymo-masks, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0, help="path time to measure per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny frames: the whole path and every check in seconds")
    ap.add_argument("--init-workers", type=int, default=1,
                    help="--workers given to init-labels (reference figure only)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, default=RUN_LIMIT_S, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_package()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.worker:
        result = worker(args)
        (Path(args.worker) / "worker.json").write_text(json.dumps(result))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
