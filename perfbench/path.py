"""The user's path, driven from outside the package, and its traced replay.

One pass over a workload's dataset runs, in order:

  init-labels  ``mobilabel.cli.main(["init-labels", ...])``, as users call it
  pipeline     what ``cmd_pipeline`` does: read the L0 files, call
               ``run_pipeline(l0, default_stages(), exchange, detector=...)``
               and write every stage's labels under ``stages/<stage>/``
  eval         ``mobilabel.cli.main(["eval", "--attributes", "--json", ...])``
               on the final labels

The detector is a table of stand-in responses made at set-up, returned by
(frame id, inference scale), so the timed pipeline holds only this
package's work.  Pipeline and eval may be repeated within a pass when one
run of them is too short to time steadily; each repeat writes to its own
directory and must repeat the first one byte for byte.

The traced pass runs the same calls under top-level spans, then times a
direct call of each inner public function on the same inputs
(``replay``), checks that its result equals what the enclosing call
produced, and counts the enclosing call's remainder as its self time.
Intermediate values such as ``unproject``'s are passed on unopened;
counts come only from rasters and label sets.
"""

from __future__ import annotations

import contextlib
import inspect
import io as _io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mobilabel.aggregate import mask_agg
from mobilabel.cli import main as cli_main
from mobilabel.initlabel import (
    DbscanParams,
    InstanceLabel,
    LabelSet,
    binarize_motion,
    dbscan_partition,
    make_initial_labels,
    unproject,
)
from mobilabel.io import read_depth, read_intrinsics, read_labels, read_motion, write_labels
from mobilabel.maskcore import rle_decode, rle_encode
from mobilabel.metrics import EvalConfig, evaluate
from mobilabel.rescale import invert_labels, make_transform
from mobilabel.rounds import STAGES, default_stages, run_pipeline, threshold_filter

from checks import CheckFailed, require, same_file
from workloads import RESPONSE_KEYS

OUTPUT_STAGES = ("l0",) + STAGES
LAYER_TIMES = (  # span names summed into "<name>_s"
    "io.read_depth", "io.read_motion", "io.write_labels", "io.read_labels",
    "initlabel.binarize_motion", "initlabel.unproject", "initlabel.dbscan_partition",
    "initlabel.from_mask", "maskcore.rle_decode", "maskcore.rle_encode",
    "rescale.invert_labels", "aggregate.mask_agg", "rounds.threshold_filter", "metrics.evaluate",
)
REPEAT_S = 1.5  # repeat pipeline and eval within a pass until this much is timed
MAX_REPEATS = 30


class StandIn:
    """The external detector: precomputed responses by (frame, scale)."""

    def __init__(self, responses: Path):
        self.table = {(key, p.stem): read_labels(p)
                      for key in RESPONSE_KEYS for p in sorted((responses / key).glob("*.json"))}
        self.scales = default_stages()[1].scale

    def __call__(self, labels: LabelSet, transform):
        if transform is None:
            key = "m2m"
        else:
            key = RESPONSE_KEYS[1 + self.scales.index(transform.scale)]
            require(transform == make_transform(labels.height, labels.width, transform.scale),
                    f"frame {labels.frame_id}: unexpected transform {transform}")
        return self.table[(key, labels.frame_id)]


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(_io.StringIO()):
        rc = cli_main([str(a) for a in argv])
    if rc != 0:
        raise CheckFailed(f"mobilabel {argv[0]} exited with {rc}")


def _no_span(name):
    return contextlib.nullcontext()


def pipeline_stage(l0_dir: Path, out: Path, detector, span=_no_span) -> None:
    """cmd_pipeline with the stock stages and the stand-in detector."""
    l0 = [read_labels(p) for p in sorted(l0_dir.glob("*.json"))]
    with span("run_pipeline"):
        results = run_pipeline(l0, default_stages(), out / "exchange", detector=detector)
    for stage in OUTPUT_STAGES:
        stage_dir = out / "stages" / stage
        stage_dir.mkdir(parents=True, exist_ok=True)
        for ls in results[stage]:
            write_labels(stage_dir / f"{ls.frame_id}.json", ls)


@dataclass
class PassTimes:
    init: float
    pipeline: list[float]
    eval: list[float]

    @property
    def path(self) -> float:
        return self.init + float(np.median(self.pipeline)) + float(np.median(self.eval))

    @property
    def wall(self) -> float:
        return self.init + sum(self.pipeline) + sum(self.eval)


def run_pass(root: Path, out: Path, detector, repeat: bool, tracer=None,
             init_workers: int = 1) -> PassTimes:
    """One pass of the path.

    With ``repeat``, pipeline and eval then run alternately until
    REPEAT_S of them are timed, so that their samples spread over the
    pass instead of bunching in one window of a machine whose speed
    drifts.  With a tracer, each top-level call runs under a span and is
    followed at once by the replay of its inner layers, so that a replay
    and the call it stands for see the machine in the same state; the
    pipeline and eval then run a second time, so that ``run_pipeline`` is
    timed on both sides of its replay.
    """
    data = root / "data"
    span = tracer.span if tracer else _no_span
    with span("cli.init_labels"):
        t0 = time.perf_counter()
        _cli(["init-labels", "--data", data, "--out", out / "l0", "--workers", init_workers])
        times = PassTimes(time.perf_counter() - t0, [], [])
    if tracer:
        replay_init(root, out, tracer)
    while True:
        r = len(times.pipeline)
        with span("pipeline"):
            t0 = time.perf_counter()
            pipeline_stage(out / "l0", out / f"pipeline{r}", detector, span)
            times.pipeline.append(time.perf_counter() - t0)
        if tracer and r == 0:
            replay_pipeline(root, out, tracer, detector)
        with span("cli.eval"):
            t0 = time.perf_counter()
            _cli(["eval", "--pred", out / "pipeline0" / "stages" / "final", "--gt", data / "labels",
                  "--attributes", "--json", out / f"report{r}.json", "--workers", 1])
            times.eval.append(time.perf_counter() - t0)
        if tracer and r == 0:
            replay_eval(root, out, tracer)
            replay_codec(root, out, tracer)
        elif tracer or not repeat or times.wall - times.init >= REPEAT_S or r + 1 >= MAX_REPEATS:
            return times


# -- tracing ---------------------------------------------------------------------

@dataclass
class Tracer:
    """Spans (name, start, end, parent) and layer counts, kept in memory
    until the run ends."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "parent": self._open[-1] if self._open else None,
                           "start": time.perf_counter(), "end": None, "replay": False})
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def first(self, name: str) -> int:
        return min(s["id"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def call(self, name: str, parent: int, fn, *args):
        """Time a direct call that stands for work done inside ``parent``."""
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                           "start": t0, "end": t1, "replay": True})
        return out

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def inner(self, sid: int) -> float:
        """Time of the spans recorded as children of span ``sid``."""
        return sum(c["end"] - c["start"] for c in self.spans if c["parent"] == sid)


def _frame_ids(root: Path) -> list[str]:
    return sorted(p.stem for p in (root / "data" / "depth").glob("*.dpf1"))


def replay_init(root: Path, out: Path, tr: Tracer) -> None:
    """The layers inside ``mobilabel init-labels``, frame by frame."""
    data = root / "data"
    replay_dir = out / "replay" / "l0"
    replay_dir.mkdir(parents=True, exist_ok=True)
    k = read_intrinsics(data / "intrinsics.json")
    defaults = inspect.signature(make_initial_labels).parameters
    threshold, min_area = defaults["motion_threshold"].default, defaults["min_area"].default
    init = tr.first("cli.init_labels")
    for fid in _frame_ids(root):
        depth = tr.call("io.read_depth", init, read_depth, data / "depth" / f"{fid}.dpf1")
        motion = tr.call("io.read_motion", init, read_motion, data / "motion" / f"{fid}.pgm")
        moving = tr.call("initlabel.binarize_motion", init, binarize_motion, motion, threshold)
        points = tr.call("initlabel.unproject", init, unproject, depth, k, moving)
        masks = tr.call("initlabel.dbscan_partition", init, dbscan_partition, points,
                        DbscanParams(), moving.shape)
        kept = [m for m in masks if int(np.count_nonzero(m)) >= min_area]
        insts = tr.call("initlabel.from_mask", init,
                        lambda: [InstanceLabel.from_mask(m, 1.0, i) for i, m in enumerate(kept)])
        ls = LabelSet(fid, moving.shape[0], moving.shape[1], insts)
        require(ls == read_labels(out / "l0" / f"{fid}.json"), f"replayed L0 {fid} differs")
        tr.call("io.write_labels", init, write_labels, replay_dir / f"{fid}.json", ls)
        same_file(out / "l0" / f"{fid}.json", replay_dir / f"{fid}.json", "replayed L0")
        tr.count("initlabel.moving_px", int(np.count_nonzero(moving)))
        tr.count("initlabel.instances", len(insts))


def replay_pipeline(root: Path, out: Path, tr: Tracer, detector) -> None:
    """The layers inside the pipeline stage and ``run_pipeline``."""
    replay_dir = out / "replay"
    pipe, rp = tr.first("pipeline"), tr.first("run_pipeline")
    ex = out / "pipeline0" / "exchange"
    stages_dir = out / "pipeline0" / "stages"
    m2m_cfg, l2s_cfg, _ = default_stages()
    for fid in _frame_ids(root):
        tr.call("io.read_labels", pipe, read_labels, out / "l0" / f"{fid}.json")
        stage_out = {s: read_labels(stages_dir / s / f"{fid}.json") for s in OUTPUT_STAGES}
        h, w = stage_out["l0"].height, stage_out["l0"].width
        resp = {key: detector(stage_out["l0"], t) for key, t in (
            ("m2m", None),
            ("large", make_transform(h, w, l2s_cfg.scale[0])),
            ("small", make_transform(h, w, l2s_cfg.scale[1])))}
        written = [  # every label file run_pipeline writes for this frame
            ("moving2mobile/request", "labels", stage_out["l0"]),
            ("moving2mobile/response", "pred", resp["m2m"]),
            ("large2small.large/request", "labels", stage_out["moving2mobile"]),
            ("large2small.large/response", "pred", resp["large"]),
            ("large2small.small/request", "labels", stage_out["moving2mobile"]),
            ("large2small.small/response", "pred", resp["small"]),
            ("final/request", "labels", stage_out["large2small"]),
        ]
        for sub, kind, ls in written:
            (replay_dir / sub).mkdir(parents=True, exist_ok=True)
            name = f"{fid}.{kind}.json"
            tr.call("io.write_labels", rp, write_labels, replay_dir / sub / name, ls)
            same_file(ex / sub / name, replay_dir / sub / name, "replayed exchange file")
        got = {key: tr.call("io.read_labels", rp, read_labels, ex / sub / f"{fid}.pred.json")
               for key, sub in (("m2m", "moving2mobile/response"),
                                ("large", "large2small.large/response"),
                                ("small", "large2small.small/response"))}
        m2m = tr.call("rounds.threshold_filter", rp, threshold_filter, got["m2m"], m2m_cfg.conf_threshold)
        large = tr.call("rounds.threshold_filter", rp, threshold_filter, got["large"], l2s_cfg.conf_threshold[0])
        small = tr.call("rounds.threshold_filter", rp, threshold_filter, got["small"], l2s_cfg.conf_threshold[1])
        inverted = tr.call("rescale.invert_labels", rp, invert_labels, small,
                           make_transform(h, w, l2s_cfg.scale[1]))
        merged = tr.call("aggregate.mask_agg", rp, mask_agg, large, inverted, l2s_cfg.agg)
        require(m2m == stage_out["moving2mobile"], f"replayed moving2mobile {fid} differs")
        require(merged == stage_out["large2small"], f"replayed large2small {fid} differs")
        tr.count("rescale.instances", len(small.instances))
        tr.count("aggregate.proposals_in", len(large.instances) + len(inverted.instances))
        tr.count("aggregate.instances_out", len(merged.instances))
        for stage in OUTPUT_STAGES:
            (replay_dir / "stages" / stage).mkdir(parents=True, exist_ok=True)
            tr.call("io.write_labels", pipe, write_labels, replay_dir / "stages" / stage / f"{fid}.json",
                    stage_out[stage])
            same_file(stages_dir / stage / f"{fid}.json", replay_dir / "stages" / stage / f"{fid}.json",
                      "replayed stage output")


def replay_eval(root: Path, out: Path, tr: Tracer) -> None:
    """The layers inside ``mobilabel eval``."""
    ev = tr.first("cli.eval")
    fids = _frame_ids(root)
    final = out / "pipeline0" / "stages" / "final"
    preds = [tr.call("io.read_labels", ev, read_labels, final / f"{fid}.json") for fid in fids]
    gts = [tr.call("io.read_labels", ev, read_labels, root / "data" / "labels" / f"{fid}.json")
           for fid in fids]
    report = tr.call("metrics.evaluate", ev, evaluate, preds, gts, EvalConfig(), True)
    written = json.loads((out / "report0.json").read_text())
    require(report.ar == written["ar"] and report.ap == written["ap"]
            and list(report.ar_per_threshold) == written["ar_per_threshold"],
            "replayed evaluate differs from the eval report")
    max_dets = EvalConfig().max_dets
    tr.count("metrics.iou_pairs", sum(min(len(p.instances), max_dets) * len(g.instances)
                                      for p, g in zip(preds, gts)))


def replay_codec(root: Path, out: Path, tr: Tracer) -> None:
    """Decode and re-encode every mask of each stage's output once."""
    with tr.span("codec") as codec:
        for stage in OUTPUT_STAGES:
            for fid in _frame_ids(root):
                for inst in read_labels(out / "pipeline0" / "stages" / stage / f"{fid}.json").instances:
                    mask = tr.call("maskcore.rle_decode", codec, rle_decode, inst.mask)
                    again = tr.call("maskcore.rle_encode", codec, rle_encode, mask)
                    require(again == inst.mask, f"{stage} {fid}: RLE round trip differs")
                    tr.count("maskcore.decoded_mpx", mask.size / 1e6)


def layer_metrics(tr: Tracer, out: Path, overhead: float) -> dict:
    """The per-layer metrics of a traced pass whose outputs are under ``out``."""
    m = {f"{name}_s": tr.total(name) for name in LAYER_TIMES}
    # run_pipeline ran before and after its replay; the mean of the two
    # cancels a steady drift of the machine's speed across the replay
    m["rounds.run_pipeline_self_s"] = (float(np.mean(tr.durations("run_pipeline")))
                                       - tr.inner(tr.first("run_pipeline")))
    labels = list((out / "l0").glob("*.json")) + [  # every file write_labels wrote in the path
        p for p in (out / "pipeline0").rglob("*.json")
        if p.name != "MANIFEST.json" and not p.name.endswith(".transform.json")]
    m["io.label_bytes"] = sum(p.stat().st_size for p in labels)
    m["rounds.exchange_files"] = sum(1 for p in (out / "pipeline0" / "exchange").rglob("*") if p.is_file())
    m.update(tr.counts)
    m["trace.overhead_s"] = overhead
    return m
