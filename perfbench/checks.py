"""Correctness checks on the outputs of one pass of the path.

Every check compares the package's files with a computation made here,
apart from the package: this module imports nothing from ``mobilabel``.
Label files are parsed with ``json`` and RLE masks decoded with the few
lines below.  The one package result a check takes as given is the set
of proposals aggregation may pick from, which the caller builds with
``invert_labels``.  The literal merge rules and the 101-point AP come
from the project's own oracles in ``tests/oracles.py``.

Each ``check_*`` function raises ``CheckFailed`` with a message naming
the frame and the property.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import ap101_ref, mask_agg_literal  # noqa: E402

IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))  # COCO 0.50:0.95
SIZE_EDGES = (1024, 9216)  # S below the first, M below the second, L above
MAX_DETS = 100
ORACLE_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- labels, parsed and decoded here ------------------------------------------

@dataclass
class Inst:
    iid: int
    score: float
    box: tuple
    counts: tuple
    attributes: dict | None
    height: int
    width: int

    @property
    def mask(self) -> np.ndarray:
        """The full-frame raster, decoded on each use so that only one
        frame's masks are ever held at a time."""
        return decode(self.counts, self.height, self.width)

    @property
    def area(self) -> int:
        return int(sum(self.counts[1::2]))

    def content(self) -> tuple:
        return (self.iid, self.score, self.box, self.counts,
                tuple(sorted((self.attributes or {}).items())))


@dataclass
class Frame:
    frame_id: str
    height: int
    width: int
    instances: list


def decode(counts, h: int, w: int) -> np.ndarray:
    """Column-major, zeros-first run lengths to a (h, w) bool raster."""
    counts = np.asarray(counts, dtype=np.int64)
    require(int(counts.sum()) == h * w, f"RLE counts sum to {int(counts.sum())}, not {h * w}")
    values = (np.arange(counts.size) % 2).astype(bool)
    return np.repeat(values, counts).reshape(w, h).T


def load(path) -> Frame:
    doc = json.loads(Path(path).read_text())
    h, w = doc["height"], doc["width"]
    insts = []
    for e in doc["instances"]:
        require(e["rle"]["size"] == [h, w], f"{path}: instance {e['id']} has size {e['rle']['size']}")
        counts = tuple(e["rle"]["counts"])
        require(sum(counts) == h * w, f"{path}: instance {e['id']} counts sum to {sum(counts)}")
        insts.append(Inst(e["id"], float(e["score"]), tuple(e["box"]), counts, e.get("attributes"), h, w))
    return Frame(doc["frame_id"], h, w, insts)


def load_dir(d) -> dict[str, Frame]:
    return {p.stem: load(p) for p in sorted(Path(d).glob("*.json"))}


def read_pgm(path) -> np.ndarray:
    """Motion probability from the 8-bit binary PGM the dataset holds."""
    magic, dims, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    require(magic == b"P5" and maxval == b"255", f"{path}: unexpected PGM header")
    w, h = map(int, dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w) / 255.0


# -- IoU and matching ---------------------------------------------------------

class _Crop:
    """A mask cut to its bounding box, for exact pairwise intersections."""

    def __init__(self, mask: np.ndarray):
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        self.area = int(np.count_nonzero(mask))
        if self.area:
            self.r0, self.r1, self.c0, self.c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
            self.crop = mask[self.r0:self.r1, self.c0:self.c1]

    def inter(self, o: "_Crop") -> int:
        if not (self.area and o.area):
            return 0
        r0, r1 = max(self.r0, o.r0), min(self.r1, o.r1)
        c0, c1 = max(self.c0, o.c0), min(self.c1, o.c1)
        if r0 >= r1 or c0 >= c1:
            return 0
        a = self.crop[r0 - self.r0:r1 - self.r0, c0 - self.c0:c1 - self.c0]
        b = o.crop[r0 - o.r0:r1 - o.r0, c0 - o.c0:c1 - o.c0]
        return int(np.count_nonzero(a & b))


def iou_matrix(preds, gts) -> np.ndarray:
    pc = [_Crop(p.mask) for p in preds]
    gc = [_Crop(g.mask) for g in gts]
    out = np.zeros((len(preds), len(gts)))
    for i, a in enumerate(pc):
        for j, b in enumerate(gc):
            inter = a.inter(b)
            union = a.area + b.area - inter
            out[i, j] = inter / union if union else 0.0
    return out


def greedy(iou: np.ndarray, thr: float) -> dict[int, int]:
    """Rows in ranking order each take the unmatched column of highest IoU
    at or above thr; ties go to the lower column."""
    taken, out = set(), {}
    for i in range(iou.shape[0]):
        best_j, best = -1, -1.0
        for j in range(iou.shape[1]):
            if j not in taken and iou[i, j] >= thr and iou[i, j] > best:
                best_j, best = j, iou[i, j]
        if best_j >= 0:
            out[i] = best_j
            taken.add(best_j)
    return out


def bucket(area: int) -> str:
    return "S" if area < SIZE_EDGES[0] else "M" if area < SIZE_EDGES[1] else "L"


def oracle_report(preds: dict[str, Frame], gts: dict[str, Frame], grid=IOU_GRID) -> dict:
    """AR/AP by exhaustive greedy matching, in the report's own layout."""
    frames = []
    for fid in sorted(gts):
        ranked = sorted(preds[fid].instances, key=lambda p: (-p.score, p.iid))[:MAX_DETS]
        gs = sorted(gts[fid].instances, key=lambda g: g.iid)
        frames.append((fid, ranked, gs, iou_matrix(ranked, gs)))
    n_gt = sum(len(g) for _, _, g, _ in frames)
    gt_by_size = {b: sum(bucket(g.area) == b for _, _, gs, _ in frames for g in gs) for b in "SML"}
    moving = {a: sum(bool(g.attributes["moving"]) == (a == "moving")
                     for _, _, gs, _ in frames for g in gs) for a in ("moving", "static")}
    ar, ap = [], []
    ar_size = {b: [] for b in "SML"}
    ap_size = {b: [] for b in "SML"}
    ar_attr = {a: [] for a in ("all", "moving", "static")}
    for thr in grid:
        pooled = []  # (rank key, is_tp, bucket of the matched gt or of the pred)
        hits = {b: 0 for b in "SML"}
        hits_attr = {"moving": 0, "static": 0}
        for fid, ranked, gs, iou in frames:
            m = greedy(iou, thr)
            for i, p in enumerate(ranked):
                matched = i in m
                pooled.append(((-p.score, fid, p.iid), matched,
                               bucket(gs[m[i]].area) if matched else bucket(p.area)))
            for j in m.values():
                hits[bucket(gs[j].area)] += 1
                hits_attr["moving" if gs[j].attributes["moving"] else "static"] += 1
        pooled.sort(key=lambda e: e[0])
        total = sum(hits.values())
        ar.append(total / n_gt if n_gt else 0.0)
        ap.append(ap101_ref([-k[0] for k, _, _ in pooled], [tp for _, tp, _ in pooled], n_gt))
        for b in "SML":
            ar_size[b].append(hits[b] / gt_by_size[b] if gt_by_size[b] else 0.0)
            mine = [(k, tp) for k, tp, kb in pooled if kb == b]
            ap_size[b].append(ap101_ref([-k[0] for k, _ in mine], [tp for _, tp in mine],
                                        gt_by_size[b]))
        ar_attr["all"].append(total / n_gt if n_gt else 0.0)
        for a in ("moving", "static"):
            ar_attr[a].append(hits_attr[a] / moving[a] if moving[a] else 0.0)
    mean = lambda v: float(np.mean(v))  # noqa: E731
    return {
        "ar": mean(ar), "ap": mean(ap), "ar_per_threshold": ar, "ap_per_threshold": ap,
        "ar_by_size": {b: mean(v) for b, v in ar_size.items()},
        "ap_by_size": {b: mean(v) for b, v in ap_size.items()},
        "ar_by_attribute": {a: mean(v) for a, v in ar_attr.items()},
        "gt_by_size": gt_by_size,
        "n_gt": n_gt, "n_pred": sum(len(r) for _, r, _, _ in frames),
    }


def _leaves(d, prefix=""):
    if isinstance(d, dict):
        for k, v in d.items():
            yield from _leaves(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(d, list):
        for i, v in enumerate(d):
            yield from _leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, d


# -- the checks ----------------------------------------------------------------

def same_file(a: Path, b: Path, what: str) -> None:
    require(a.read_bytes() == b.read_bytes(), f"{what}: {b} differs from {a}")


def same_tree(a: Path, b: Path, what: str) -> None:
    """Every file under a and b is byte-identical."""
    def tree(d):
        return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}
    ta, tb = tree(a), tree(b)
    require(ta.keys() == tb.keys(), f"{what}: file sets differ between {a} and {b}")
    bad = [k for k in ta if ta[k] != tb[k]]
    require(not bad, f"{what}: {len(bad)} files differ between {a} and {b}, e.g. {bad[:3]}")


def check_l0(l0: dict[str, Frame], data: Path) -> None:
    """Instances are pairwise disjoint and inside the motion foreground;
    every moving object is found at IoU >= 0.5 and no static one."""
    gts = load_dir(data / "labels")
    require(sorted(l0) == sorted(gts), f"L0 frames {sorted(l0)} != dataset frames {sorted(gts)}")
    for fid, fr in l0.items():
        fg = read_pgm(data / "motion" / f"{fid}.pgm") >= 0.1
        seen = np.zeros_like(fg)
        for inst in fr.instances:
            mask = inst.mask
            require(not (seen & mask).any(), f"L0 {fid}: instance {inst.iid} overlaps another")
            require(not (mask & ~fg).any(), f"L0 {fid}: instance {inst.iid} leaves the motion foreground")
            seen |= mask
        iou = iou_matrix(gts[fid].instances, fr.instances)
        for j, g in enumerate(gts[fid].instances):
            found = bool(iou.shape[1]) and iou[j].max() >= 0.5
            if g.attributes["moving"]:
                require(found, f"L0 {fid}: moving object {g.iid} not found at IoU 0.5")
            else:
                require(not found, f"L0 {fid}: static object {g.iid} matched at IoU 0.5")


def check_l0_exact(l0: dict[str, Frame], data: Path) -> None:
    """Noise-free input: L0 masks are exactly the generator's moving masks."""
    gts = load_dir(data / "labels")
    for fid, fr in l0.items():
        want = sorted(np.packbits(g.mask).tobytes() for g in gts[fid].instances if g.attributes["moving"])
        got = sorted(np.packbits(inst.mask).tobytes() for inst in fr.instances)
        require(got == want, f"L0 {fid}: {len(got)} masks differ from the {len(want)} moving masks")


def kept(fr: Frame, cut: float) -> list:
    return [inst for inst in fr.instances if inst.score >= cut]


def check_m2m(m2m: dict[str, Frame], responses: Path, cut: float) -> None:
    """moving2mobile is the stand-in response filtered at the stage's cut."""
    for fid, fr in m2m.items():
        want = [i.content() for i in kept(load(responses / "m2m" / f"{fid}.json"), cut)]
        require([i.content() for i in fr.instances] == want,
                f"moving2mobile {fid}: output differs from the response filtered at {cut}")


def check_l2s(l2s: dict[str, Frame], inputs: dict, literal_ids, agg) -> None:
    """Every large2small mask is one of its input masks; on the sampled
    frames the output equals the literal merge rules."""
    for fid, fr in l2s.items():
        large, small = inputs[fid]
        offered = {(i.counts, i.score) for i in large + small}
        for inst in fr.instances:
            require((inst.counts, inst.score) in offered,
                    f"large2small {fid}: instance {inst.iid} is not one of the input masks")
        if fid not in literal_ids:
            continue
        union = np.zeros((fr.height, fr.width), dtype=bool)
        for i in large + small:
            union |= i.mask
        px = np.flatnonzero(union)  # every set operation stays on these pixels
        as_dict = lambda i: {"mask": i.mask.ravel()[px], "score": i.score, "counts": i.counts}  # noqa: E731
        want = mask_agg_literal([as_dict(i) for i in large], [as_dict(i) for i in small],
                                agg.match_thrd, agg.filt_frac, agg.cover_frac)
        require({(d["counts"], d["score"]) for d in want} == {(i.counts, i.score) for i in fr.instances},
                f"large2small {fid}: output differs from the literal merge rules")


def check_final(final: dict[str, Frame], l2s: dict[str, Frame]) -> None:
    require(sorted(final) == sorted(l2s), "final and large2small cover different frames")
    for fid in final:
        require([i.content() for i in final[fid].instances] == [i.content() for i in l2s[fid].instances],
                f"final {fid}: differs from large2small")


def check_stage_claims(stages: dict, gts: dict[str, Frame]) -> dict:
    """Static AR@0.5 rises after moving2mobile.  Returns it and the
    small-bucket AR@0.5 before and after large2small, which is reported
    but not required to rise: a frame holds a handful of small objects,
    each surviving the quarter-scale round trip about half the time, so
    missing all of them is a matter of the seed."""
    at50 = {s: oracle_report(stages[s], gts, grid=(0.5,)) for s in ("l0", "moving2mobile", "large2small")}
    static = [at50[s]["ar_by_attribute"]["static"] for s in ("l0", "moving2mobile")]
    small = [at50[s]["ar_by_size"]["S"] for s in ("moving2mobile", "large2small")]
    require(static[1] > static[0], f"static AR@0.5 did not rise after moving2mobile: {static}")
    return {"static_ar50": static, "small_ar50": small, "small_gt": at50["l0"]["gt_by_size"]["S"]}


def check_report(report_path: Path, final: dict[str, Frame], gts: dict[str, Frame]) -> None:
    """The eval report equals the exhaustive matching oracle within 1e-9."""
    got = json.loads(Path(report_path).read_text())
    want = oracle_report(final, gts)
    have = dict(_leaves(got))
    for key, value in _leaves(want):
        require(key in have, f"eval report lacks {key}")
        require(abs(have[key] - value) <= ORACLE_TOL,
                f"eval report {key} = {have[key]!r}, oracle {value!r}")
